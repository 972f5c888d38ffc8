/**
 * @file
 * Exact floating-point attention (Figure 1 of the paper).
 *
 * This is the functional baseline every approximate and quantized
 * configuration is validated against, and also the kernel the CPU
 * baseline times.
 */

#ifndef A3_ATTENTION_REFERENCE_HPP
#define A3_ATTENTION_REFERENCE_HPP

#include <cstdint>
#include <span>

#include "attention/types.hpp"
#include "kernels/scratch.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/** Numerically-stable softmax (subtracts the maximum before exp). */
Vector softmax(const Vector &input);

/**
 * In-place softmax over v[0..n): v[i] becomes exp(v[i] - max) / sum.
 * The buffer-reuse primitive the allocating softmax() wraps.
 */
void softmaxInPlace(float *v, std::size_t n);

/**
 * Exact soft attention: output = softmax(K q)^T V.
 *
 * @param key n x d key matrix.
 * @param value n x d value matrix.
 * @param query d-dimensional query.
 */
AttentionResult referenceAttention(const Matrix &key, const Matrix &value,
                                   const Vector &query);

/**
 * Exact attention restricted to a subset of rows: scores are computed
 * only for `rows`, the softmax normalizes over that subset, and the
 * weighted sum spans only those value rows. This is the float-precision
 * model of what A3 computes after selection; the exact path is the
 * special case rows = {0..n-1}.
 */
AttentionResult subsetAttention(const Matrix &key, const Matrix &value,
                                const Vector &query,
                                const std::vector<std::uint32_t> &rows);

/**
 * Allocation-free core of subsetAttention(): writes every field of
 * `result` (reusing its buffers) and takes its softmax workspace from
 * `scratch.sub`. `rows` may alias scratch.rowIds or scratch.kept.
 * Implemented as subsetAttentionPartialInto() + finalizePartialInto()
 * — exact attention is the single-shard specialization of the partial
 * path. At ResultDetail::Output only output and iterations are
 * written (the dense fields are cleared); output is bit-identical.
 */
void subsetAttentionInto(const Matrix &key, const Matrix &value,
                         const Vector &query,
                         std::span<const std::uint32_t> rows,
                         AttentionResult &result, Scratch &scratch,
                         ResultDetail detail);

/**
 * Partial-output core of the reference path: scores, unnormalized
 * exp weights, their sum, the row maximum, and the unnormalized value
 * accumulation over `rows` — everything the log-sum-exp shard merge
 * needs, and exactly the quantities subsetAttentionInto() normalizes
 * (see PartialResult). Buffer discipline matches subsetAttentionInto:
 * softmax workspace in `scratch.sub`, `rows` may alias scratch row
 * buffers, and every field of `out` is (re)written — the dense ones
 * cleared at ResultDetail::Output.
 */
void subsetAttentionPartialInto(const Matrix &key, const Matrix &value,
                                const Vector &query,
                                std::span<const std::uint32_t> rows,
                                PartialResult &out, Scratch &scratch,
                                ResultDetail detail);

}  // namespace a3

#endif  // A3_ATTENTION_REFERENCE_HPP
