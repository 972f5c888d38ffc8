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
     * output and iterations (plus maxScore and expSum on a
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

/** The log-sum-exp terms of one softmax over the kept rows. */
struct SoftmaxTerms
{
    /** Maximum score over the kept rows. */
    float maxScore = 0.0f;

    /** Sum of exp(s_i - maxScore) over the kept rows. */
    float expSum = 0.0f;
};

/**
 * One work unit's answer in mergeable form: the unit's normalized
 * AttentionResult — exactly the fields its backend's runInto()
 * writes at the same detail — plus the SoftmaxTerms of its softmax
 * over the kept rows,
 *
 *     maxScore  m = max_i s_i
 *     expSum    Z = sum_i exp(s_i - m)
 *
 * This is the form the paper's datapath produces by construction
 * (Module 3 divides every exponent by the sum before it weights V),
 * and the (normalized output, log-sum-exp) pair split-K decoding
 * kernels merge. Units combine by weighting unit s with
 * c_s Z_s / sum_t c_t Z_t, where M = max_s m_s and c_s =
 * exp(m_s - M): each unit's output and weights are scaled by that
 * share (see mergeShardPartials). A single unit has share exactly 1,
 * so it merges to itself bit for bit, for every backend kind.
 *
 * Row ids in scores / weights / candidates / kept are local to the
 * unit's rows (ids in [0, unit rows)). At ResultDetail::Output the
 * per-row arrays and id lists are empty, as in AttentionResult.
 */
struct PartialResult : AttentionResult, SoftmaxTerms
{
};

}  // namespace a3

#endif  // A3_ATTENTION_TYPES_HPP
