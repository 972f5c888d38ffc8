/**
 * @file
 * End-to-end approximate attention (Sections IV and V, software model).
 *
 * Pipeline: greedy candidate selection over the pre-sorted key matrix,
 * exact dot products for the C surviving candidates, post-scoring
 * selection down to K rows, softmax over those K scores, and the
 * weighted sum of the K value rows. Setting both stages off reproduces
 * exact attention bit-for-bit.
 */

#ifndef A3_ATTENTION_APPROX_ATTENTION_HPP
#define A3_ATTENTION_APPROX_ATTENTION_HPP

#include "attention/backend.hpp"
#include "attention/candidate_search.hpp"
#include "attention/config.hpp"
#include "attention/sorted_key.hpp"
#include "attention/types.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/**
 * Holds one key/value pair plus its preprocessed (column-sorted) key and
 * answers queries with configurable approximation. The preprocessing in
 * the constructor models comprehension-time work; run() models the
 * query-response critical path.
 *
 * The approximation is shard-local: a sharded approx backend selects
 * candidates within each shard, so its merged result is
 * accuracy-bounded against the unsharded flow rather than bit-tight
 * (the greedy search sees different competitors).
 */
class ApproxAttention final : public AttentionBackend
{
  public:
    /**
     * Preprocess and retain the task matrices.
     *
     * @param key n x d key matrix.
     * @param value n x d value matrix.
     * @param config approximation knobs (M, T, stage enables).
     */
    ApproxAttention(Matrix key, Matrix value, ApproxConfig config);

    /**
     * Answer one query (allocation-free; see AttentionBackend): the
     * five stages — selection, candidate scoring, post-scoring,
     * softmax, weighted sum. Returns the softmax's log-sum-exp terms
     * over the kept rows.
     */
    SoftmaxTerms runInto(
        const Vector &query, AttentionResult &out,
        ResultDetail detail = ResultDetail::Full) const override;

    /**
     * Incremental task extension: the new rows are merged into the
     * column-sorted key instead of rebuilding it (see SortedKey::
     * append): one O(d (n + k)) merge rather than build()'s three
     * radix passes per column.
     */
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;

    /** Float matrices plus the sorted-key SRAM of Section IV-A. */
    std::size_t memoryBytes() const override;

    /**
     * Stage 1 only: greedy candidate selection per the configuration,
     * including the degenerate-case fallback (all products
     * non-positive keeps the best greedy row). Surviving rows land in
     * scratch.rowIds (ascending; all n rows when selection is off),
     * the greedy working state in scratch.greedy / scratch.maxHeap /
     * scratch.minHeap. Returns the iterations executed (0 when
     * selection is off). Shared by the float flow here and the
     * quantized ApproxQuantizedAttention flow so the two model the
     * same selection hardware.
     */
    std::size_t candidateRowsInto(const Vector &query,
                                  Scratch &scratch) const;

    std::string name() const override { return "approx"; }
    const ApproxConfig &config() const { return config_; }
    const SortedKey &sortedKey() const { return sorted_; }
    const Matrix &key() const { return key_; }
    const Matrix &value() const { return value_; }
    std::size_t rows() const override { return key_.rows(); }
    std::size_t dims() const override { return key_.cols(); }


    /**
     * Matrices plus the sorted-key columns verbatim — restore()
     * checks and adopts the orders instead of re-running build()'s
     * radix sort.
     */
    void serializeState(WireWriter &out) const override;
    std::size_t compact() override;

    /** Rebuild from a serializeState() payload; nullptr on a
     *  malformed payload. `config` supplies the approximation knobs
     *  (they are not part of the image). */
    static std::unique_ptr<ApproxAttention>
    restore(const ApproxConfig &config, WireReader &in);

  private:
    /** restore() adopts members directly. */
    ApproxAttention() = default;

    Matrix key_;
    Matrix value_;
    ApproxConfig config_;
    SortedKey sorted_;
};

}  // namespace a3

#endif  // A3_ATTENTION_APPROX_ATTENTION_HPP
