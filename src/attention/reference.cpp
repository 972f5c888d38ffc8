#include "attention/reference.hpp"

#include <numeric>

#include "kernels/kernels.hpp"
#include "util/logging.hpp"

namespace a3 {

void
softmaxInPlace(float *v, std::size_t n)
{
    a3Assert(n > 0, "softmax of empty vector");
    const Kernels &k = activeKernels();
    const float maxVal = k.maxReduce(v, n);
    const float sum = k.expSumInPlace(v, n, maxVal);
    k.divideBy(v, n, sum);
}

Vector
softmax(const Vector &input)
{
    Vector out = input;
    softmaxInPlace(out.data(), out.size());
    return out;
}

AttentionResult
referenceAttention(const Matrix &key, const Matrix &value,
                   const Vector &query)
{
    std::vector<std::uint32_t> all(key.rows());
    std::iota(all.begin(), all.end(), 0u);
    return subsetAttention(key, value, query, all);
}

AttentionResult
subsetAttention(const Matrix &key, const Matrix &value,
                const Vector &query,
                const std::vector<std::uint32_t> &rows)
{
    AttentionResult result;
    subsetAttentionInto(key, value, query, rows, result,
                        Scratch::forThread(), ResultDetail::Full);
    return result;
}

namespace {

/**
 * Shared unnormalized core: scores, exp weights u_i = exp(s_i - max),
 * their sum, and the accumulation sum u_i * v_i, written straight
 * into caller-owned buffers — PartialResult fields on the partial
 * path, AttentionResult fields on the exact path (which then
 * normalizes in place, avoiding any staging copy). At Output the
 * dense per-row fields are cleared and never scattered into; the
 * m-length workspace and the accumulation are the same either way.
 */
void
subsetPartialCore(const Matrix &key, const Matrix &value,
                  const Vector &query,
                  std::span<const std::uint32_t> rows, Vector &scores,
                  Vector &expWeights,
                  std::vector<std::uint32_t> &candidates,
                  std::vector<std::uint32_t> &kept, Vector &accum,
                  float &maxScore, float &expSum, Scratch &scratch,
                  ResultDetail detail)
{
    a3Assert(key.rows() == value.rows() && key.cols() == value.cols(),
             "key/value shape mismatch");
    a3Assert(query.size() == key.cols(), "query dimension mismatch");
    a3Assert(!rows.empty(), "attention over an empty row subset");

    const std::size_t n = key.rows();
    const std::size_t d = key.cols();
    const std::size_t m = rows.size();
    for (std::uint32_t r : rows)
        a3Assert(r < n, "row index out of range");

    const Kernels &k = activeKernels();
    const bool full = detail == ResultDetail::Full;
    if (full) {
        scores.assign(n, 0.0f);
        expWeights.assign(n, 0.0f);
        candidates.assign(rows.begin(), rows.end());
        kept.assign(rows.begin(), rows.end());
    } else {
        scores.clear();
        expWeights.clear();
        candidates.clear();
        kept.clear();
    }

    // Step 1: dot products for the selected rows only.
    scratch.sub.resize(m);
    k.gatherDot(key.data().data(), d, rows.data(), m, query.data(),
                scratch.sub.data());
    if (full)
        for (std::size_t i = 0; i < m; ++i)
            scores[rows[i]] = scratch.sub[i];

    // Step 2: unnormalized softmax terms over the subset.
    maxScore = k.maxReduce(scratch.sub.data(), m);
    expSum = k.expSumInPlace(scratch.sub.data(), m, maxScore);
    if (full)
        for (std::size_t i = 0; i < m; ++i)
            expWeights[rows[i]] = scratch.sub[i];

    // Step 3: unnormalized accumulation of the selected value rows.
    accum.assign(d, 0.0f);
    k.gatherWeightedSum(value.data().data(), d, rows.data(), m,
                        scratch.sub.data(), accum.data());
}

}  // namespace

void
subsetAttentionInto(const Matrix &key, const Matrix &value,
                    const Vector &query,
                    std::span<const std::uint32_t> rows,
                    AttentionResult &result, Scratch &scratch,
                    ResultDetail detail)
{
    // The single-shard specialization of the partial path: the same
    // core writes the unnormalized terms into result's own buffers
    // (weights holding u_i, output holding the accumulation), and
    // normalization happens in place.
    float maxScore = 0.0f;
    float expSum = 0.0f;
    subsetPartialCore(key, value, query, rows, result.scores,
                      result.weights, result.candidates, result.kept,
                      result.output, maxScore, expSum, scratch,
                      detail);
    result.iterations = 0;
    const Kernels &k = activeKernels();
    k.divideBy(result.weights.data(), result.weights.size(), expSum);
    k.divideBy(result.output.data(), result.output.size(), expSum);
}

void
subsetAttentionPartialInto(const Matrix &key, const Matrix &value,
                           const Vector &query,
                           std::span<const std::uint32_t> rows,
                           PartialResult &out, Scratch &scratch,
                           ResultDetail detail)
{
    subsetPartialCore(key, value, query, rows, out.scores,
                      out.expWeights, out.candidates, out.kept,
                      out.accum, out.maxScore, out.expSum, scratch,
                      detail);
    out.iterations = 0;
}

}  // namespace a3
