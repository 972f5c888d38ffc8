#include "harness/accuracy.hpp"

#include <memory>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "util/logging.hpp"
#include "workloads/metrics.hpp"

namespace a3 {

AccuracyReport
evaluateAccuracy(const Workload &workload, const EngineConfig &engine,
                 std::size_t episodes, std::uint64_t seed)
{
    a3Assert(episodes > 0, "accuracy evaluation needs episodes");
    Rng rng(seed);
    const AttentionEngine &executor = AttentionEngine::shared();

    AccuracyReport report;
    report.episodes = episodes;

    double metricSum = 0.0;
    double candFracSum = 0.0;
    double keptFracSum = 0.0;
    double recallSum = 0.0;

    for (std::size_t e = 0; e < episodes; ++e) {
        const AttentionTask task = workload.sample(rng);
        const std::size_t n = task.key.rows();

        const std::vector<std::size_t> scored =
            workload.scoredQueries(task);
        if (scored.empty())
            continue;  // only timing-only queries sampled
        std::vector<AttentionRequestGroup> groups(1);
        groups[0].queries.reserve(scored.size());
        for (std::size_t qi : scored)
            groups[0].queries.push_back(task.queries[qi]);

        // One preprocessed backend per episode (sorted key / sized
        // datapath shared by every query), then the whole scored batch
        // through the engine at once.
        const std::unique_ptr<AttentionBackend> backend =
            makeBackend(engine, task.key, task.value);
        groups[0].backend = backend.get();
        std::vector<std::vector<AttentionResult>> batched;
        executor.runGroupsInto(groups, batched);
        const std::vector<AttentionResult> &results = batched[0];

        // Exact float scores for the Figure 13b top-k recall, batched
        // the same way; the exact-float engine's own results already
        // are the reference, so skip the second pass there.
        const bool needExact = engine.kind != EngineKind::ExactFloat;
        std::vector<std::vector<AttentionResult>> exactBatched;
        if (needExact) {
            const ReferenceAttention exact(task.key, task.value);
            groups[0].backend = &exact;
            executor.runGroupsInto(groups, exactBatched);
        }

        metricSum += workload.scoreBatch(task, scored, results);
        for (std::size_t i = 0; i < scored.size(); ++i) {
            const AttentionResult &result = results[i];
            candFracSum += static_cast<double>(
                               result.candidates.size()) /
                           static_cast<double>(n);
            keptFracSum += static_cast<double>(result.kept.size()) /
                           static_cast<double>(n);
            const Vector &exactScores =
                needExact ? exactBatched[0][i].scores : result.scores;
            recallSum += topKRecall(exactScores, result.kept,
                                    workload.recallTopK());
            ++report.scoredQueries;
        }
    }

    a3Assert(report.scoredQueries > 0, "no scored queries sampled");
    const auto count = static_cast<double>(report.scoredQueries);
    report.metric = metricSum / count;
    report.normalizedCandidates = candFracSum / count;
    report.normalizedKept = keptFracSum / count;
    report.recall = recallSum / count;
    return report;
}

}  // namespace a3
