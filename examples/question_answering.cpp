/**
 * @file
 * Question answering with approximate attention — the MemN2N / bAbI
 * scenario the paper's introduction motivates (Figure 2).
 *
 * An episode is a set of embedded "statements" and one embedded
 * question; the attention mechanism must place its weight on the
 * statement that answers the question. This example runs a batch of
 * episodes through exact attention and both approximate presets and
 * reports retrieval accuracy plus how much work approximation saved.
 */

#include <cstdio>
#include <memory>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "workloads/babi_like.hpp"
#include "workloads/metrics.hpp"

int
main()
{
    using namespace a3;

    BabiLikeWorkload workload;
    Rng rng(11);
    const int episodes = 400;

    struct Config
    {
        const char *label;
        ApproxConfig approx;
    } configs[] = {
        {"exact", ApproxConfig::exact()},
        {"conservative (M=n/2, T=5%)", ApproxConfig::conservative()},
        {"aggressive   (M=n/8, T=10%)", ApproxConfig::aggressive()},
    };

    std::printf("%-30s %9s %12s %12s\n", "configuration", "accuracy",
                "avg rows", "rows scored");
    for (const Config &cfg : configs) {
        Rng episodeRng(rng.split());

        // Each episode is one request group: its own preprocessed
        // backend (the per-story comprehension work) plus the question
        // asked against it. The engine flattens all groups into one
        // work list and answers them across its thread pool.
        EngineConfig engineCfg;
        engineCfg.kind = EngineKind::ApproxFloat;
        engineCfg.approx = cfg.approx;
        std::vector<AttentionTask> tasks;
        std::vector<std::unique_ptr<AttentionBackend>> backends;
        std::vector<AttentionRequestGroup> groups;
        tasks.reserve(episodes);
        backends.reserve(episodes);
        groups.reserve(episodes);
        for (int e = 0; e < episodes; ++e) {
            tasks.push_back(workload.sample(episodeRng));
            const AttentionTask &task = tasks.back();
            backends.push_back(makeBackend(engineCfg, task.key,
                                           task.value));
            groups.push_back({backends.back().get(),
                              {task.queries[0]}});
        }
        std::vector<std::vector<AttentionResult>> results;
        AttentionEngine::shared().runGroupsInto(groups, results);

        double correct = 0.0;
        double rowsTotal = 0.0;
        double rowsScored = 0.0;
        for (int e = 0; e < episodes; ++e) {
            const AttentionResult &result = results[e][0];
            correct +=
                argmaxAccuracy(result.weights, tasks[e].relevant[0]);
            rowsTotal += static_cast<double>(tasks[e].key.rows());
            rowsScored += static_cast<double>(result.candidates.size());
        }
        std::printf("%-30s %8.1f%% %12.1f %12.1f\n", cfg.label,
                    100.0 * correct / episodes, rowsTotal / episodes,
                    rowsScored / episodes);
    }

    std::printf("\nApproximation skips the dot products (and softmax "
                "and weighted-sum work)\nfor every row that never "
                "becomes a candidate — the content-based-search\n"
                "insight of the paper (Section II-C).\n");
    return 0;
}
