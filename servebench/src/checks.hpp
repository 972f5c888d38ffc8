/**
 * @file
 * After the timed phases: the correctness check and the traced run's
 * single-threaded stage replay.
 *
 * The check re-answers a seeded sample of the served queries against
 * a backend freshly bound to the same context. In-process workloads
 * compare with a store-backed ShardedBackend over a private, spill-less
 * store (the served answer must not depend on whether its shards were
 * live, shared, restored, or grown by appends); the remote workload
 * compares with an in-process store-less ShardedBackend at the same
 * shardRows (remote == in-process). Outputs must be bit-identical.
 *
 * The stage replay times, per shard of the same fresh backends, the
 * paper's three stages through their public entry points: candidate
 * search (ApproxAttention::candidateRowsInto), the quantized datapath
 * over the candidates (QuantizedAttention::runRowsInto), post-scoring
 * (postScoringSelectInto), and the rest of the shard's runInto()
 * (softmax and weighted sum) as the output stage. Multi-shard
 * queries also time mergeUnitsInto() on real partials, and the remote
 * workload times the coordinator's runInto().
 */

#ifndef SERVEBENCH_CHECKS_HPP
#define SERVEBENCH_CHECKS_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serving_run.hpp"

namespace servebench {

struct CheckResult
{
    std::size_t checked = 0;
    std::size_t mismatched = 0;
};

/** Per-shard-query stage samples of the replay. */
struct StageSamples
{
    std::vector<double> searchUs;
    std::vector<double> datapathUs;
    std::vector<double> postScoringUs;
    std::vector<double> outputUs;
    std::vector<double> candidates;
    std::vector<double> keptShare;
    /** Per multi-shard query. */
    std::vector<double> mergeUs;
    /** Per query, remote workloads only. */
    std::vector<double> remoteQueryMs;
};

/**
 * Check up to `maxChecks` sampled answers (seeded choice); when
 * `stages` is non-null, also replay the first `maxStageQueries` of
 * them through the stage calls.
 */
CheckResult checkAnswers(const ServingRun &run, std::uint64_t seed,
                         std::size_t maxChecks, StageSamples *stages,
                         std::size_t maxStageQueries);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKS_HPP
