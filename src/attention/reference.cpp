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

SoftmaxTerms
subsetAttentionInto(const Matrix &key, const Matrix &value,
                    const Vector &query,
                    std::span<const std::uint32_t> rows,
                    AttentionResult &result, Scratch &scratch,
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
        result.scores.assign(n, 0.0f);
        result.weights.assign(n, 0.0f);
        result.candidates.assign(rows.begin(), rows.end());
        result.kept.assign(rows.begin(), rows.end());
    } else {
        result.scores.clear();
        result.weights.clear();
        result.candidates.clear();
        result.kept.clear();
    }
    result.iterations = 0;

    // Step 1: dot products for the selected rows only.
    scratch.sub.resize(m);
    k.gatherDot(key.data().data(), d, rows.data(), m, query.data(),
                scratch.sub.data());
    if (full)
        for (std::size_t i = 0; i < m; ++i)
            result.scores[rows[i]] = scratch.sub[i];

    // Step 2: unnormalized softmax terms over the subset. The
    // weights hold u_i = exp(s_i - max) until the final division.
    SoftmaxTerms terms;
    terms.maxScore = k.maxReduce(scratch.sub.data(), m);
    terms.expSum =
        k.expSumInPlace(scratch.sub.data(), m, terms.maxScore);
    if (full)
        for (std::size_t i = 0; i < m; ++i)
            result.weights[rows[i]] = scratch.sub[i];

    // Step 3: unnormalized accumulation of the selected value rows,
    // then normalization in place. 0 / expSum stays exactly 0, so
    // dividing the scattered weights applies the same per-element
    // IEEE division the m-length workspace would see.
    result.output.assign(d, 0.0f);
    k.gatherWeightedSum(value.data().data(), d, rows.data(), m,
                        scratch.sub.data(), result.output.data());
    k.divideBy(result.weights.data(), result.weights.size(),
               terms.expSum);
    k.divideBy(result.output.data(), result.output.size(),
               terms.expSum);
    return terms;
}

}  // namespace a3
