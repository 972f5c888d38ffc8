#include "attention/approx_attention.hpp"

#include <numeric>
#include <utility>

#include "attention/post_scoring.hpp"
#include "attention/reference.hpp"
#include "attention/serialize.hpp"
#include "kernels/kernels.hpp"
#include "net/wire.hpp"
#include "util/logging.hpp"

namespace a3 {

ApproxAttention::ApproxAttention(Matrix key, Matrix value,
                                 ApproxConfig config)
    : key_(std::move(key)), value_(std::move(value)),
      config_(config)
{
    a3Assert(key_.rows() == value_.rows() &&
                 key_.cols() == value_.cols(),
             "key/value shape mismatch");
    a3Assert(key_.rows() > 0 && key_.cols() > 0,
             "attention task must be non-empty");
    if (config_.candidateSelection)
        sorted_ = SortedKey::build(key_);
    Scratch::forThread().reserveTask(key_.rows(), key_.cols());
}

void
ApproxAttention::append(const Matrix &keyRows, const Matrix &valueRows)
{
    a3Assert(keyRows.rows() == valueRows.rows() &&
                 keyRows.cols() == valueRows.cols(),
             "appended key/value shape mismatch");
    a3Assert(keyRows.cols() == key_.cols(),
             "appended rows must match the task dimension");
    const auto firstRowId = static_cast<std::uint32_t>(key_.rows());
    key_.appendRows(keyRows);
    value_.appendRows(valueRows);
    if (config_.candidateSelection)
        sorted_.append(keyRows, firstRowId);
    Scratch::forThread().reserveTask(key_.rows(), key_.cols());
}

std::size_t
ApproxAttention::memoryBytes() const
{
    return (key_.data().size() + value_.data().size()) * sizeof(float) +
           sorted_.storageBytes();
}

std::size_t
ApproxAttention::compact()
{
    return key_.shrinkToFit() + value_.shrinkToFit() +
           sorted_.compact();
}

void
ApproxAttention::serializeState(WireWriter &out) const
{
    writeMatrix(out, key_);
    writeMatrix(out, value_);
    // The sorted orders travel verbatim — (vals, rowIds) per column —
    // so restore() skips the build() sort entirely.
    out.u8(config_.candidateSelection ? 1 : 0);
    if (!config_.candidateSelection)
        return;
    const std::size_t rows = sorted_.rows();
    const std::size_t cols = sorted_.cols();
    std::vector<float> vals(rows);
    std::vector<std::uint32_t> rowIds(rows);
    for (std::size_t c = 0; c < cols; ++c) {
        const auto &column = sorted_.columnEntries(c);
        for (std::size_t i = 0; i < rows; ++i) {
            vals[i] = column[i].val;
            rowIds[i] = column[i].rowId;
        }
        out.floats(vals.data(), rows);
        out.u32s(rowIds.data(), rows);
    }
}

std::unique_ptr<ApproxAttention>
ApproxAttention::restore(const ApproxConfig &config, WireReader &in)
{
    Matrix key;
    Matrix value;
    if (!readMatrix(in, key) || !readMatrix(in, value) ||
        key.rows() != value.rows() || key.cols() != value.cols())
        return nullptr;
    const std::uint8_t hasSorted = in.u8();
    if (!in.ok() ||
        (hasSorted != 0) != config.candidateSelection)
        return nullptr;

    auto backend =
        std::unique_ptr<ApproxAttention>(new ApproxAttention());
    backend->config_ = config;
    if (hasSorted != 0) {
        const std::size_t rows = key.rows();
        const std::size_t cols = key.cols();
        // The row ids index per-row search state, so adopt only
        // columns that equal what build() would produce.
        std::vector<std::vector<SortedKeyEntry>> columns(cols);
        std::vector<float> vals;
        std::vector<std::uint32_t> rowIds;
        for (std::size_t c = 0; c < cols; ++c) {
            in.floats(vals);
            in.u32s(rowIds);
            if (!in.ok() || vals.size() != rows ||
                rowIds.size() != rows)
                return nullptr;
            auto &column = columns[c];
            column.resize(rows);
            for (std::size_t i = 0; i < rows; ++i)
                column[i] = {vals[i], rowIds[i]};
        }
        auto sorted = SortedKey::fromColumns(key, std::move(columns));
        if (!sorted)
            return nullptr;
        backend->sorted_ = std::move(*sorted);
    }
    backend->key_ = std::move(key);
    backend->value_ = std::move(value);
    Scratch::forThread().reserveTask(backend->key_.rows(),
                                     backend->key_.cols());
    return backend;
}

std::size_t
ApproxAttention::candidateRowsInto(const Vector &query,
                                   Scratch &scratch) const
{
    const std::size_t n = key_.rows();
    if (!config_.candidateSelection) {
        scratch.rowIds.resize(n);
        std::iota(scratch.rowIds.begin(), scratch.rowIds.end(), 0u);
        return 0;
    }
    const std::size_t iterations = config_.iterationsFor(n);
    efficientGreedySearchCore(sorted_, query, iterations,
                              config_.skipHeuristic, scratch);
    if (scratch.rowIds.empty()) {
        // Degenerate case (all products non-positive): keep the row
        // with the largest greedy score so the softmax stays
        // well-defined; the paper's skip heuristic makes this rare.
        // Compared in float, first-of-equals, exactly as the historic
        // max_element over the float greedyScore array did.
        std::uint32_t best = 0;
        float bestScore = static_cast<float>(scratch.greedy[0]);
        for (std::size_t r = 1; r < n; ++r) {
            const float g = static_cast<float>(scratch.greedy[r]);
            if (g > bestScore) {
                bestScore = g;
                best = static_cast<std::uint32_t>(r);
            }
        }
        scratch.rowIds.push_back(best);
    }
    return iterations;
}

SoftmaxTerms
ApproxAttention::runInto(const Vector &query, AttentionResult &out,
                         ResultDetail detail) const
{
    a3Assert(query.size() == key_.cols(), "query dimension mismatch");
    const Kernels &k = activeKernels();
    Scratch &scratch = Scratch::forThread();

    // Stage 1: candidate selection.
    const std::size_t iterations = candidateRowsInto(query, scratch);
    const std::size_t count = scratch.rowIds.size();

    // Stage 2: exact dot products for the candidates.
    scratch.candScores.resize(count);
    k.gatherDot(key_.data().data(), key_.cols(),
                scratch.rowIds.data(), count, query.data(),
                scratch.candScores.data());

    // Stage 3: post-scoring selection.
    if (config_.postScoring) {
        postScoringSelectInto(scratch.rowIds, scratch.candScores,
                              config_.scoreGap(), scratch.kept);
    } else {
        scratch.kept.assign(scratch.rowIds.begin(),
                            scratch.rowIds.end());
    }

    // Stages 4-5: softmax and weighted sum over the kept rows.
    const SoftmaxTerms terms = subsetAttentionInto(
        key_, value_, query, scratch.kept, out, scratch, detail);
    out.iterations = iterations;
    if (detail == ResultDetail::Full) {
        out.candidates.assign(scratch.rowIds.begin(),
                              scratch.rowIds.end());
        // subsetAttentionInto() only filled scores for kept rows;
        // also record the candidate scores post-scoring inspected.
        for (std::size_t i = 0; i < count; ++i)
            out.scores[scratch.rowIds[i]] = scratch.candScores[i];
    }
    return terms;
}

}  // namespace a3
