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

void
mergeShardPartials(const std::vector<PartialResult> &partials,
                   const std::vector<std::size_t> &offsets,
                   std::size_t totalRows, std::size_t dims,
                   PartialResult &out)
{
    a3Assert(!partials.empty(), "nothing to merge");
    a3Assert(partials.size() == offsets.size(),
             "one offset per partial");
    const Kernels &k = activeKernels();

    // A shard holds at least one row, so a Full partial always
    // carries expWeights; an empty one marks a lean partial.
    const bool full = !partials.front().expWeights.empty();

    // Global max first: the shard holding it gets scale exp(0) = 1
    // exactly, so its terms pass through the merge untouched.
    float maxScore = partials.front().maxScore;
    for (const PartialResult &p : partials)
        maxScore = std::max(maxScore, p.maxScore);

    if (full) {
        out.scores.assign(totalRows, 0.0f);
        out.expWeights.assign(totalRows, 0.0f);
    } else {
        out.scores.clear();
        out.expWeights.clear();
    }
    out.candidates.clear();
    out.kept.clear();
    out.iterations = 0;
    out.maxScore = maxScore;
    out.expSum = 0.0f;
    out.accum.assign(dims, 0.0f);

    // Serial merge in shard-index order, regardless of how the
    // partials were computed — the fixed order that makes parallel,
    // serial, and remote fan-out bit-identical. Lean partials take
    // only the accumulation and exp-sum terms.
    for (std::size_t s = 0; s < partials.size(); ++s) {
        const PartialResult &p = partials[s];
        a3Assert(p.expWeights.empty() != full,
                 "shard partials disagree on their detail");
        a3Assert(p.accum.size() == dims,
                 "shard partial dimension mismatch");
        const float scale = std::exp(p.maxScore - maxScore);
        k.axpy(scale, p.accum.data(), out.accum.data(), dims);
        out.expSum += p.expSum * scale;
        out.iterations += p.iterations;
        if (!full)
            continue;

        const std::size_t offset = offsets[s];
        const std::size_t local = p.expWeights.size();
        a3Assert(offset + local <= totalRows,
                 "shard partial overruns the task rows");
        std::copy(p.scores.begin(), p.scores.end(),
                  out.scores.begin() +
                      static_cast<std::ptrdiff_t>(offset));
        std::copy(p.expWeights.begin(), p.expWeights.end(),
                  out.expWeights.begin() +
                      static_cast<std::ptrdiff_t>(offset));
        k.scale(out.expWeights.data() + offset, local, scale);

        const auto globalId = [offset](std::uint32_t id) {
            return static_cast<std::uint32_t>(offset + id);
        };
        for (const std::uint32_t id : p.candidates)
            out.candidates.push_back(globalId(id));
        for (const std::uint32_t id : p.kept)
            out.kept.push_back(globalId(id));
    }
}

}  // namespace a3
