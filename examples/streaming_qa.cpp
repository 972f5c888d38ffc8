/**
 * @file
 * Streaming QA service: the serving layer end to end.
 *
 * Build and run:
 *     cmake -B build && cmake --build build
 *     ./build/examples/streaming_qa
 *
 * Two users hold long-lived story contexts. Questions stream in
 * interleaved; the SessionCache keeps each story's preprocessed
 * backend alive across requests, the BatchScheduler coalesces the
 * pending questions per session and answers them in one batched
 * engine pass, and a mid-stream context update rides the incremental
 * append() path instead of re-binding the whole story. The scheduler
 * runs behind an AdmissionPolicy — when one user floods the service,
 * the excess is shed with a typed outcome instead of growing the
 * queue without bound, and weighted round-robin keeps the other
 * user's share of each drain.
 */

#include <cstdio>
#include <string>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "serving/admission.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "util/random.hpp"

int
main()
{
    using namespace a3;

    Rng rng(11);
    const std::size_t d = 64;
    const auto randomMatrix = [&rng](std::size_t rows,
                                     std::size_t dims) {
        Matrix m(rows, dims);
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < dims; ++c)
                m(r, c) = static_cast<float>(rng.normal());
        return m;
    };
    const auto randomQuery = [&rng](std::size_t dims) {
        Vector q(dims);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
        return q;
    };

    // The service: a batched engine, a 4 MiB session cache, and an
    // admission-controlled coalescing scheduler in front of them. At
    // most 8 requests are answered per drain, at most 64 may queue
    // overall and 8 per session — past that, submit() sheds.
    AttentionEngine engine;
    SessionCache cache({.byteBudget = 4u << 20});
    AdmissionPolicy policy;
    policy.maxQueueDepth = 64;
    policy.maxPendingPerSession = 8;
    BatchScheduler scheduler(engine, cache, /*maxBatch=*/8, policy);
    EngineConfig config;
    config.kind = EngineKind::ApproxFloat;
    // Alice pays for priority: 2 slots per scheduling pass to Bob's 1.
    scheduler.setSessionWeight("alice", 2);

    // 1. Two users load their stories (the expensive bind: column
    //    sorting the key, Section IV-A). bindSession() returns a
    //    typed BindOutcome whose SessionHandle names this binding —
    //    later appends and submits go through the handle, so they can
    //    never land on a session that was evicted and re-bound.
    const BindOutcome alice = cache.bindSession(
        "alice", config, randomMatrix(320, d), randomMatrix(320, d));
    const BindOutcome bob = cache.bindSession(
        "bob", config, randomMatrix(512, d), randomMatrix(512, d));
    std::printf("bound 2 sessions (%s, %s), cache holds %zu "
                "bytes\n",
                bindStatusName(alice.status),
                bindStatusName(bob.status), cache.bytesInUse());

    // 2. A first wave of interleaved questions. The scheduler groups
    //    them per session so every question against one story shares
    //    its preprocessed backend.
    for (int i = 0; i < 4; ++i) {
        scheduler.submit(alice.handle, randomQuery(d));
        scheduler.submit(bob.handle, randomQuery(d));
    }
    for (const ServingResult &done : scheduler.drain()) {
        std::printf("ticket %llu (%s): %zu candidates, %zu rows kept\n",
                    static_cast<unsigned long long>(done.ticket),
                    done.session.c_str(), done.result.candidates.size(),
                    done.result.kept.size());
    }

    // 3. Alice's story grows mid-stream: 16 new sentences arrive. The
    //    incremental append() merges them into the sorted key instead
    //    of re-binding all 320 existing rows.
    const AppendOutcome grown = cache.appendSession(
        alice.handle, randomMatrix(16, d), randomMatrix(16, d));
    std::printf("appended %zu rows to alice's story (%s, now %zu "
                "rows)\n",
                grown.rowsAppended, appendStatusName(grown.status),
                alice.handle.backend()->rows());

    // 4. A second wave hits the warm cache: no preprocessing runs.
    for (int i = 0; i < 3; ++i) {
        scheduler.submit(alice.handle, randomQuery(d));
        scheduler.submit(bob.handle, randomQuery(d));
    }
    const auto wave2 = scheduler.drain();
    std::printf("second wave answered %zu questions\n", wave2.size());

    // 5. Bob floods the service with 20 rapid-fire questions. His
    //    8-request session cap sheds the excess with a typed outcome
    //    — the queue stays bounded and Alice's next question is still
    //    admitted.
    std::size_t admitted = 0;
    std::size_t shed = 0;
    for (int i = 0; i < 20; ++i) {
        const AdmissionOutcome outcome =
            scheduler.submit(bob.handle, randomQuery(d));
        if (outcome.admitted())
            ++admitted;
        else
            ++shed;
    }
    std::printf("bob's burst: %zu admitted, %zu shed (%s)\n",
                admitted, shed,
                admissionDecisionName(
                    AdmissionDecision::RejectedSessionCap));
    const bool aliceAdmitted =
        scheduler.submit(alice.handle, randomQuery(d)).admitted();
    std::printf("alice still admitted during bob's burst: %s\n",
                aliceAdmitted ? "yes" : "no");
    std::size_t answered = 0;
    while (scheduler.pending() > 0)
        answered += scheduler.drain().size();
    std::printf("burst drained in weighted order: %zu answered\n",
                answered);

    const SessionCacheStats stats = cache.stats();
    std::printf("cache counters: %llu hits, %llu misses, "
                "%llu appends, %llu evictions\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.appends),
                static_cast<unsigned long long>(stats.evictions));
    const BatchSchedulerStats sched = scheduler.stats();
    std::printf("scheduler counters: %llu submitted, %llu answered, "
                "%llu shed, %llu drains, %llu groups\n",
                static_cast<unsigned long long>(sched.submitted),
                static_cast<unsigned long long>(sched.answered),
                static_cast<unsigned long long>(sched.rejected()),
                static_cast<unsigned long long>(sched.drains),
                static_cast<unsigned long long>(sched.groups));
    // Latency values vary run to run, so print only their presence —
    // the example's stdout stays byte-identical across seeded runs.
    std::printf("queue-wait percentiles recorded: %s\n",
                sched.queueWaitP99 >= sched.queueWaitP50 ? "yes"
                                                         : "no");
    return 0;
}
