#include "serving/partial_merge.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"
#include "util/logging.hpp"

namespace a3 {

std::vector<std::size_t>
prefixShardSizes(std::size_t n, std::size_t shardRows)
{
    a3Assert(n > 0, "cannot partition an empty task");
    a3Assert(shardRows > 0, "shardRows must be positive");
    std::vector<std::size_t> sizes(n / shardRows, shardRows);
    if (n % shardRows != 0)
        sizes.push_back(n % shardRows);
    return sizes;
}

SoftmaxTerms
mergeShardPartials(const std::vector<PartialResult> &partials,
                   const std::vector<std::size_t> &offsets,
                   std::size_t totalRows, std::size_t dims,
                   AttentionResult &out)
{
    a3Assert(!partials.empty(), "nothing to merge");
    a3Assert(partials.size() == offsets.size(),
             "one offset per partial");
    const Kernels &k = activeKernels();

    // A shard holds at least one row, so a Full partial always
    // carries weights; an empty one marks a lean partial.
    const bool full = !partials.front().weights.empty();

    // Global max first: the shard holding it gets c = exp(0) = 1
    // exactly. Then the global exp-sum, sum_s c_s Z_s.
    float maxScore = partials.front().maxScore;
    for (const PartialResult &p : partials)
        maxScore = std::max(maxScore, p.maxScore);
    const auto scaledExpSum = [maxScore](const PartialResult &p) {
        return std::exp(p.maxScore - maxScore) * p.expSum;
    };
    float expSum = 0.0f;
    for (const PartialResult &p : partials)
        expSum += scaledExpSum(p);

    if (full) {
        out.scores.assign(totalRows, 0.0f);
        out.weights.assign(totalRows, 0.0f);
    } else {
        out.scores.clear();
        out.weights.clear();
    }
    out.candidates.clear();
    out.kept.clear();
    out.iterations = 0;

    // Serial merge in shard-index order, regardless of how the
    // partials were computed — the fixed order that makes parallel,
    // serial, and remote fan-out bit-identical.
    for (std::size_t s = 0; s < partials.size(); ++s) {
        const PartialResult &p = partials[s];
        a3Assert(p.weights.empty() != full,
                 "shard partials disagree on their detail");
        a3Assert(p.output.size() == dims,
                 "shard partial dimension mismatch");
        const float share = scaledExpSum(p) / expSum;
        if (s == 0) {
            out.output.assign(p.output.begin(), p.output.end());
            k.scale(out.output.data(), dims, share);
        } else {
            k.axpy(share, p.output.data(), out.output.data(), dims);
        }
        out.iterations += p.iterations;
        if (!full)
            continue;

        const std::size_t offset = offsets[s];
        const std::size_t local = p.weights.size();
        a3Assert(offset + local <= totalRows,
                 "shard partial overruns the task rows");
        std::copy(p.scores.begin(), p.scores.end(),
                  out.scores.begin() +
                      static_cast<std::ptrdiff_t>(offset));
        std::copy(p.weights.begin(), p.weights.end(),
                  out.weights.begin() +
                      static_cast<std::ptrdiff_t>(offset));
        k.scale(out.weights.data() + offset, local, share);

        const auto globalId = [offset](std::uint32_t id) {
            return static_cast<std::uint32_t>(offset + id);
        };
        for (const std::uint32_t id : p.candidates)
            out.candidates.push_back(globalId(id));
        for (const std::uint32_t id : p.kept)
            out.kept.push_back(globalId(id));
    }
    return {maxScore, expSum};
}

}  // namespace a3
