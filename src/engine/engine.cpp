#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "util/logging.hpp"

namespace a3 {

namespace {

/** One entry of the flattened work list: unit `unit` of query
 *  `query` of group `group`. */
struct WorkUnit
{
    std::uint32_t group;
    std::uint32_t query;
    std::uint32_t unit;
};

/**
 * A calling thread's reusable runGroupsInto() state. Every buffer
 * grows to the largest batch seen and never shrinks, so a serving
 * loop's steady-state pass allocates nothing: the partial slots keep
 * their buffers from pass to pass (a slot regrows only when its
 * query's unit count changes). Pool lanes reach it through the
 * pass's one pointer, never through their own thread_local.
 */
struct FlattenScratch
{
    /** Work units per query of each group. */
    std::vector<std::size_t> unitCount;
    /** Flat query index: queryBase[g] + q addresses the partial
     *  slots and unit countdown of (g, q). */
    std::vector<std::size_t> queryBase;
    std::vector<WorkUnit> work;
    /** Per flat query: a multi-unit query's partial slots. */
    std::vector<std::vector<PartialResult>> partials;
    /** Per flat query: units still running (multi-unit only). */
    std::vector<std::atomic<std::size_t>> unitsLeft;
    /** Set while a pass runs, to catch re-entry on one thread. */
    bool inUse = false;
};

/** What every lane of one pass reads. The parallelFor body captures
 *  only a pointer to it, so std::function stores the closure inline
 *  instead of allocating. */
struct Pass
{
    const std::vector<AttentionRequestGroup> &groups;
    std::vector<std::vector<AttentionResult>> &results;
    FlattenScratch &scratch;
};

/**
 * Run work item i. A single-unit query is its backend's own
 * runInto(); a multi-unit query's lanes each fill one partial slot,
 * and the lane that takes the query's countdown to zero saw every
 * other lane's partial (acq_rel) and merges them serially in unit
 * order (mergeUnitsInto). Either way the result is bit-identical to
 * a sequential runInto() call.
 */
void
runWorkUnit(const Pass &pass, std::size_t i)
{
    FlattenScratch &s = pass.scratch;
    const WorkUnit &item = s.work[i];
    const AttentionRequestGroup &group = pass.groups[item.group];
    const Vector &query = group.queries[item.query];
    AttentionResult &slot = pass.results[item.group][item.query];
    if (s.unitCount[item.group] == 1) {
        group.backend->runInto(query, slot, group.detail);
    } else {
        const std::size_t f = s.queryBase[item.group] + item.query;
        group.backend->runUnitPartialInto(
            item.unit, query, s.partials[f][item.unit], group.detail);
        if (s.unitsLeft[f].fetch_sub(1, std::memory_order_acq_rel) ==
            1)
            group.backend->mergeUnitsInto(s.partials[f], slot);
    }
}

}  // namespace

AttentionEngine::AttentionEngine(std::size_t threads) : pool_(threads)
{
}

AttentionEngine &
AttentionEngine::shared()
{
    // Never destroyed: a process that exits from a forked child (a
    // death test, fatal() after fork()) would otherwise run
    // ~ThreadPool there and join worker threads that fork() did not
    // copy.
    static AttentionEngine &engine = *new AttentionEngine;
    return engine;
}

void
AttentionEngine::runGroupsInto(
    const std::vector<AttentionRequestGroup> &groups,
    std::vector<std::vector<AttentionResult>> &results) const
{
    thread_local FlattenScratch scratch;
    a3Assert(!scratch.inUse,
             "runGroupsInto re-entered on a thread whose pass is "
             "still running");
    scratch.inUse = true;

    // Decompose every (group, query) into its backend's work units
    // (one per shard for a sharded backend, one for a plain one).
    results.resize(groups.size());
    scratch.unitCount.resize(groups.size());
    scratch.queryBase.resize(groups.size() + 1);
    scratch.queryBase[0] = 0;
    std::size_t maxQueries = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        const AttentionRequestGroup &group = groups[g];
        a3Assert(group.backend != nullptr,
                 "request group ", g, " has no backend");
        results[g].resize(group.queries.size());
        scratch.unitCount[g] = group.backend->workUnitCount();
        a3Assert(scratch.unitCount[g] > 0,
                 "backend of group ", g, " reports zero work units");
        maxQueries = std::max(maxQueries, group.queries.size());
        scratch.queryBase[g + 1] =
            scratch.queryBase[g] + group.queries.size();
    }

    // Round-robin batch formation at query granularity: every unit
    // of query q of every group lands in the list before query q+1
    // of any, so a huge group cannot monopolize the first lanes and
    // every group's per-query cost is spread evenly across the pass.
    // Units of one query stay adjacent, keeping a query's shard
    // passes temporally close (their merge runs as soon as the last
    // one lands). The interleave only reorders which lane picks up
    // which unit — the merge order is fixed — so results are
    // bit-identical to any other order.
    scratch.work.clear();
    for (std::size_t q = 0; q < maxQueries; ++q)
        for (std::size_t g = 0; g < groups.size(); ++g)
            if (q < groups[g].queries.size())
                for (std::size_t u = 0; u < scratch.unitCount[g]; ++u)
                    scratch.work.push_back(
                        {static_cast<std::uint32_t>(g),
                         static_cast<std::uint32_t>(q),
                         static_cast<std::uint32_t>(u)});

    // Partial slots and unit countdowns, armed only for multi-unit
    // groups.
    const std::size_t totalQueries = scratch.queryBase[groups.size()];
    if (scratch.partials.size() < totalQueries)
        scratch.partials.resize(totalQueries);
    // Atomics cannot be moved, so a short countdown array is
    // replaced instead of resized.
    if (scratch.unitsLeft.size() < totalQueries)
        scratch.unitsLeft =
            std::vector<std::atomic<std::size_t>>(totalQueries);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (scratch.unitCount[g] == 1)
            continue;
        for (std::size_t q = 0; q < groups[g].queries.size(); ++q) {
            const std::size_t f = scratch.queryBase[g] + q;
            scratch.partials[f].resize(scratch.unitCount[g]);
            scratch.unitsLeft[f].store(scratch.unitCount[g],
                                       std::memory_order_relaxed);
        }
    }

    const Pass pass{groups, results, scratch};
    pool_.parallelFor(scratch.work.size(), [&pass](std::size_t i) {
        runWorkUnit(pass, i);
    });
    scratch.inUse = false;
}

SelfAttentionResult
AttentionEngine::selfAttention(const Matrix &key, const Matrix &value,
                               const Matrix &queries,
                               const ApproxConfig &config) const
{
    a3Assert(queries.cols() == key.cols(),
             "query width must match the key dimension");
    // One preprocessing pass (the column sort of Section IV-A) shared
    // by every token query.
    const ApproxAttention backend(key, value, config);

    const std::size_t tokens = queries.rows();
    std::vector<AttentionRequestGroup> groups(1);
    groups[0].backend = &backend;
    groups[0].queries.resize(tokens);
    for (std::size_t t = 0; t < tokens; ++t)
        groups[0].queries[t].assign(queries.row(t).begin(),
                                    queries.row(t).end());
    std::vector<std::vector<AttentionResult>> batched;
    runGroupsInto(groups, batched);

    SelfAttentionResult result;
    result.outputs = Matrix(tokens, key.cols());
    result.perToken.reserve(tokens);
    double candSum = 0.0;
    double keptSum = 0.0;
    for (std::size_t t = 0; t < tokens; ++t) {
        AttentionResult &r = batched[0][t];
        for (std::size_t j = 0; j < key.cols(); ++j)
            result.outputs(t, j) = r.output[j];
        candSum += static_cast<double>(r.candidates.size());
        keptSum += static_cast<double>(r.kept.size());
        result.perToken.push_back(std::move(r));
    }
    if (tokens > 0) {
        result.avgCandidates = candSum / static_cast<double>(tokens);
        result.avgKept = keptSum / static_cast<double>(tokens);
    }
    return result;
}

std::vector<MultiHopResult>
AttentionEngine::runMultiHop(const MultiHopAttention &attention,
                             const std::vector<Vector> &queries) const
{
    std::vector<MultiHopResult> results(queries.size());
    pool_.parallelFor(queries.size(), [&](std::size_t i) {
        results[i] = attention.run(queries[i]);
    });
    return results;
}

}  // namespace a3
