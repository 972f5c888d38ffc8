#include "checks.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

#include "attention/approx_attention.hpp"
#include "attention/post_scoring.hpp"
#include "attention/quantized.hpp"
#include "kernels/scratch.hpp"
#include "serving/sharded_backend.hpp"
#include "trace/replay.hpp"

namespace servebench {

namespace {

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double
elapsedUs(double start)
{
    return (now() - start) * 1e6;
}

/** Time the stages of one query on every shard of `backend`. */
void
replayStages(const a3::ShardedBackend &backend, const a3::Vector &query,
             StageSamples &out)
{
    a3::AttentionResult full;
    a3::AttentionResult rowsResult;
    std::vector<std::uint32_t> rows;
    std::vector<float> scores;
    std::vector<std::uint32_t> kept;
    for (std::size_t s = 0; s < backend.shardCount(); ++s) {
        const a3::AttentionBackend &shard = backend.shard(s);
        shard.runInto(query, full);  // warm the caches and scratch

        double search = 0.0, datapath = 0.0, post = 0.0;
        const auto *quantized =
            dynamic_cast<const a3::ApproxQuantizedAttention *>(&shard);
        const auto *approx = quantized != nullptr
                                 ? &quantized->selection()
                                 : dynamic_cast<const a3::ApproxAttention *>(
                                       &shard);
        if (approx != nullptr) {
            a3::Scratch &scratch = a3::Scratch::forThread();
            double start = now();
            approx->candidateRowsInto(query, scratch);
            search = elapsedUs(start);
            rows.assign(scratch.rowIds.begin(), scratch.rowIds.end());

            const a3::AttentionResult *scored = &full;
            if (quantized != nullptr) {
                start = now();
                quantized->datapath().runRowsInto(query, rows, rowsResult);
                datapath = elapsedUs(start);
                scored = &rowsResult;
            }
            scores.resize(rows.size());
            for (std::size_t i = 0; i < rows.size(); ++i)
                scores[i] = scored->scores[rows[i]];
            start = now();
            a3::postScoringSelectInto(rows, scores,
                                      approx->config().scoreGap(), kept);
            post = elapsedUs(start);
        } else {
            rows.resize(shard.rows());
            kept.resize(shard.rows());
        }

        const double start = now();
        shard.runInto(query, full);
        const double total = elapsedUs(start);

        out.searchUs.push_back(search);
        out.datapathUs.push_back(datapath);
        out.postScoringUs.push_back(post);
        out.outputUs.push_back(std::max(0.0, total - search - datapath - post));
        out.candidates.push_back(static_cast<double>(rows.size()));
        out.keptShare.push_back(
            rows.empty() ? 0.0
                         : static_cast<double>(kept.size()) /
                               static_cast<double>(rows.size()));
    }

    if (backend.workUnitCount() > 1) {
        std::vector<a3::PartialResult> partials(backend.workUnitCount());
        for (std::size_t u = 0; u < partials.size(); ++u)
            backend.runUnitPartialInto(u, query, partials[u]);
        const double start = now();
        backend.mergeUnitsInto(partials, full);
        out.mergeUs.push_back(elapsedUs(start));
    }
}

}  // namespace

CheckResult
checkAnswers(const ServingRun &run, std::uint64_t seed,
             std::size_t maxChecks, StageSamples *stages,
             std::size_t maxStageQueries)
{
    const WorkloadSpec &spec = run.spec();
    const bool remote = run.coordinator() != nullptr;

    // Seeded choice of the answers to check.
    std::vector<const SampledAnswer *> chosen;
    for (const SampledAnswer &sample : run.samples())
        chosen.push_back(&sample);
    std::sort(chosen.begin(), chosen.end(),
              [seed](const SampledAnswer *a, const SampledAnswer *b) {
                  const std::uint64_t ka = a->request * 0x9e3779b97f4a7c15ull ^ seed;
                  const std::uint64_t kb = b->request * 0x9e3779b97f4a7c15ull ^ seed;
                  return ka != kb ? ka < kb : a->request < b->request;
              });
    if (chosen.size() > maxChecks)
        chosen.resize(maxChecks);
    std::size_t stageBudget = stages != nullptr ? maxStageQueries : 0;

    // One fresh bind per distinct context.
    using ContextKey = std::tuple<std::uint64_t, std::uint32_t>;
    std::map<ContextKey, std::vector<const SampledAnswer *>> byContext;
    for (const SampledAnswer *sample : chosen)
        byContext[{sample->contentSeed, sample->rows}].push_back(sample);

    CheckResult result;
    a3::AttentionResult answer;
    for (const auto &[context, group] : byContext) {
        const SampledAnswer &first = *group.front();
        a3::Matrix key, value;
        if (first.document != a3::kPrivateDocument) {
            for (const CatalogDocument &doc : run.catalog())
                if (doc.contentSeed == first.contentSeed) {
                    key = *doc.key;
                    value = *doc.value;
                }
        } else {
            key = a3::traceContentMatrix(first.contentSeed, first.rows,
                                         spec.dims);
            value = a3::traceValueMatrix(first.contentSeed, first.rows,
                                         spec.dims);
        }

        a3::ShardStore freshStore;
        a3::ShardedConfig config;
        config.shardRows = spec.shardRows;
        config.store = remote ? nullptr : &freshStore;
        const a3::ShardedBackend fresh(spec.engine, std::move(key),
                                       std::move(value), config);

        for (const SampledAnswer *sample : group) {
            const a3::Vector query =
                a3::traceQueryVector(sample->querySeed, spec.dims);
            fresh.runInto(query, answer);
            ++result.checked;
            if (!sameBits(answer.output, sample->output))
                ++result.mismatched;
            if (stageBudget == 0)
                continue;
            --stageBudget;
            replayStages(fresh, query, *stages);
            if (remote) {
                run.coordinator()->runInto(query, answer);
                const double start = now();
                run.coordinator()->runInto(query, answer);
                stages->remoteQueryMs.push_back((now() - start) * 1e3);
            }
        }
    }
    return result;
}

}  // namespace servebench
