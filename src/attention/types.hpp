/**
 * @file
 * Shared result types for the attention library.
 */

#ifndef A3_ATTENTION_TYPES_HPP
#define A3_ATTENTION_TYPES_HPP

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace a3 {

/**
 * How much of a result the caller asks for. The serving path reads
 * only the output, so it runs at Output and never pays for the dense
 * per-row diagnostics; the accuracy harness, the figure benches and
 * the trace replay ask for Full.
 */
enum class ResultDetail {
    /**
     * output and iterations (plus accum, maxScore and expSum on a
     * PartialResult); the per-row arrays and id lists stay empty.
     */
    Output,

    /** Every field, including the length-n per-row diagnostics. */
    Full,
};

/**
 * Result of one attention operation together with the intermediate
 * values the evaluation needs (scores for top-k recall, weights for
 * post-softmax analysis, selection sizes for Figures 11b/12b). At
 * ResultDetail::Output only `output` and `iterations` are written;
 * weights, scores, candidates and kept are left empty.
 */
struct AttentionResult
{
    /** d-dimensional output vector (weighted sum of value rows). */
    Vector output;

    /**
     * Per-row softmax weights, length n. Rows that approximation
     * excluded hold exactly 0.
     */
    Vector weights;

    /**
     * Per-row similarity scores (dot products), length n. Rows whose
     * score was never computed (non-candidates) hold 0 and are listed
     * in neither `candidates` nor `kept`.
     */
    Vector scores;

    /** Rows surviving candidate selection, ascending; n rows if exact. */
    std::vector<std::uint32_t> candidates;

    /** Rows surviving post-scoring selection, ascending subset. */
    std::vector<std::uint32_t> kept;

    /** Greedy-search iterations actually executed (0 if exact). */
    std::size_t iterations = 0;
};

/**
 * Softmax partials of one attention operation, before normalization —
 * the shard-local contribution of the numerically stable distributed
 * softmax decomposition. A shard holding rows with scores s_i returns
 *
 *     maxScore   m = max_i s_i            (over the kept rows)
 *     expSum     Z = sum_i exp(s_i - m)
 *     expWeights u_i = exp(s_i - m)       (0 for excluded rows)
 *     accum      a = sum_i u_i * v_i      (unnormalized value sum)
 *
 * and shards combine via log-sum-exp: with M = max_s m_s and
 * c_s = exp(m_s - M), the merged weights are u_i * c_s / sum_s Z_s c_s
 * and the merged output is (sum_s a_s c_s) / (sum_s Z_s c_s).
 * Normalizing a single partial (finalizePartialInto) recovers the
 * plain AttentionResult, which is why runInto() is the single-shard
 * specialization of the partial path.
 *
 * scores / candidates / kept / iterations mirror AttentionResult but
 * are local to the shard's rows (ids in [0, shard rows)). At
 * ResultDetail::Output a partial carries only accum, maxScore, expSum
 * and iterations — all a log-sum-exp merge of outputs needs — and
 * expWeights, scores, candidates and kept are left empty.
 */
struct PartialResult
{
    /** d-dimensional unnormalized value accumulation sum u_i * v_i. */
    Vector accum;

    /** Per-row unnormalized weights exp(s_i - maxScore), length n. */
    Vector expWeights;

    /** Per-row similarity scores, length n (0 for non-candidates). */
    Vector scores;

    /** Rows surviving candidate selection, ascending local ids. */
    std::vector<std::uint32_t> candidates;

    /** Rows surviving post-scoring selection, ascending subset. */
    std::vector<std::uint32_t> kept;

    /** Greedy-search iterations actually executed (0 if exact). */
    std::size_t iterations = 0;

    /** Maximum score over the kept rows. */
    float maxScore = 0.0f;

    /** Sum of exp(s_i - maxScore) over the kept rows. */
    float expSum = 0.0f;
};

}  // namespace a3

#endif  // A3_ATTENTION_TYPES_HPP
