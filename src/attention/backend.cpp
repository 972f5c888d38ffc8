#include "attention/backend.hpp"

#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "attention/approx_attention.hpp"
#include "attention/post_scoring.hpp"
#include "attention/quantized.hpp"
#include "attention/reference.hpp"
#include "attention/serialize.hpp"
#include "kernels/kernels.hpp"
#include "kernels/scratch.hpp"
#include "net/wire.hpp"
#include "util/logging.hpp"

namespace a3 {

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::ExactFloat:
        return "exact-float";
      case EngineKind::ApproxFloat:
        return "approx-float";
      case EngineKind::ExactQuantized:
        return "exact-quantized";
      case EngineKind::ApproxQuantized:
        return "approx-quantized";
    }
    panic("unknown engine kind");
}

void
finalizePartialInto(const PartialResult &partial, AttentionResult &result)
{
    const Kernels &k = activeKernels();
    result.scores = partial.scores;
    result.candidates = partial.candidates;
    result.kept = partial.kept;
    result.iterations = partial.iterations;
    // 0 / expSum stays exactly 0, so dividing the full scattered
    // arrays applies the same per-element IEEE division the m-length
    // softmax workspace saw — weights of kept rows are bit-identical
    // either way.
    result.weights = partial.expWeights;
    k.divideBy(result.weights.data(), result.weights.size(),
               partial.expSum);
    result.output = partial.accum;
    k.divideBy(result.output.data(), result.output.size(),
               partial.expSum);
}

void
AttentionBackend::runPartialInto(const Vector &query,
                                 PartialResult &out,
                                 ResultDetail detail) const
{
    // Derived fallback for backends without a native partial path
    // (the quantized kinds): run the full local pipeline — the kept
    // scores are needed at either detail — then recompute the
    // log-sum-exp terms in float from them and scale the normalized
    // weights/output back up by expSum. The backend's own weighting
    // survives the roundtrip up to ULPs.
    thread_local AttentionResult local;
    runInto(query, local, ResultDetail::Full);

    float maxScore = -std::numeric_limits<float>::infinity();
    for (const std::uint32_t r : local.kept)
        maxScore = std::max(maxScore, local.scores[r]);
    float expSum = 0.0f;
    for (const std::uint32_t r : local.kept)
        expSum += std::exp(local.scores[r] - maxScore);

    const Kernels &k = activeKernels();
    if (detail == ResultDetail::Full) {
        out.scores = local.scores;
        out.candidates = local.candidates;
        out.kept = local.kept;
        out.expWeights = local.weights;
        k.scale(out.expWeights.data(), out.expWeights.size(), expSum);
    } else {
        out.scores.clear();
        out.candidates.clear();
        out.kept.clear();
        out.expWeights.clear();
    }
    out.iterations = local.iterations;
    out.accum = local.output;
    k.scale(out.accum.data(), out.accum.size(), expSum);
    out.maxScore = maxScore;
    out.expSum = expSum;
}

void
AttentionBackend::runUnitPartialInto(std::size_t unit,
                                     const Vector &query,
                                     PartialResult &out,
                                     ResultDetail detail) const
{
    a3Assert(unit == 0, "single-unit backend asked for unit ", unit);
    runPartialInto(query, out, detail);
}

void
AttentionBackend::mergeUnitsInto(
    const std::vector<PartialResult> &partials,
    AttentionResult &out) const
{
    a3Assert(partials.size() == 1,
             "single-unit backend asked to merge ", partials.size(),
             " partials");
    finalizePartialInto(partials.front(), out);
}

std::unique_ptr<AttentionBackend>
AttentionBackend::clone() const
{
    fatal("backend \"", name(), "\" does not support clone()");
}

void
AttentionBackend::serializeState(WireWriter &out) const
{
    (void)out;
    fatal("backend \"", name(), "\" is not serializable");
}

ReferenceAttention::ReferenceAttention(Matrix key, Matrix value)
    : key_(std::move(key)), value_(std::move(value))
{
    a3Assert(key_.rows() == value_.rows() &&
                 key_.cols() == value_.cols(),
             "key/value shape mismatch");
    a3Assert(key_.rows() > 0 && key_.cols() > 0,
             "attention task must be non-empty");
    Scratch::forThread().reserveTask(key_.rows(), key_.cols());
}

void
ReferenceAttention::runInto(const Vector &query, AttentionResult &out,
                            ResultDetail detail) const
{
    Scratch &scratch = Scratch::forThread();
    scratch.rowIds.resize(key_.rows());
    std::iota(scratch.rowIds.begin(), scratch.rowIds.end(), 0u);
    subsetAttentionInto(key_, value_, query, scratch.rowIds, out,
                        scratch, detail);
}

void
ReferenceAttention::runPartialInto(const Vector &query,
                                   PartialResult &out,
                                   ResultDetail detail) const
{
    Scratch &scratch = Scratch::forThread();
    scratch.rowIds.resize(key_.rows());
    std::iota(scratch.rowIds.begin(), scratch.rowIds.end(), 0u);
    subsetAttentionPartialInto(key_, value_, query, scratch.rowIds,
                               out, scratch, detail);
}

void
ReferenceAttention::append(const Matrix &keyRows, const Matrix &valueRows)
{
    a3Assert(keyRows.rows() == valueRows.rows() &&
                 keyRows.cols() == valueRows.cols(),
             "appended key/value shape mismatch");
    a3Assert(keyRows.cols() == key_.cols(),
             "appended rows must match the task dimension");
    key_.appendRows(keyRows);
    value_.appendRows(valueRows);
    Scratch::forThread().reserveTask(key_.rows(), key_.cols());
}

std::size_t
ReferenceAttention::memoryBytes() const
{
    return (key_.data().size() + value_.data().size()) * sizeof(float);
}

std::unique_ptr<AttentionBackend>
ReferenceAttention::clone() const
{
    return std::unique_ptr<AttentionBackend>(
        new ReferenceAttention(*this));
}

std::size_t
ReferenceAttention::compact()
{
    return key_.shrinkToFit() + value_.shrinkToFit();
}

void
ReferenceAttention::serializeState(WireWriter &out) const
{
    writeMatrix(out, key_);
    writeMatrix(out, value_);
}

std::unique_ptr<ReferenceAttention>
ReferenceAttention::restore(WireReader &in)
{
    Matrix key;
    Matrix value;
    if (!readMatrix(in, key) || !readMatrix(in, value) ||
        key.rows() != value.rows() || key.cols() != value.cols())
        return nullptr;
    return std::make_unique<ReferenceAttention>(std::move(key),
                                                std::move(value));
}

ApproxQuantizedAttention::ApproxQuantizedAttention(
    Matrix key, Matrix value, ApproxConfig approx, int intBits,
    int fracBits, PackedKvFormat packedKv)
    : approx_(std::make_unique<ApproxAttention>(
          std::move(key), std::move(value), approx)),
      datapath_(std::make_unique<QuantizedAttention>(
          approx_->key(), approx_->value(), intBits, fracBits,
          packedKv))
{
}

ApproxQuantizedAttention::ApproxQuantizedAttention(
    std::unique_ptr<ApproxAttention> approx,
    std::unique_ptr<QuantizedAttention> datapath)
    : approx_(std::move(approx)), datapath_(std::move(datapath))
{
    a3Assert(approx_ != nullptr && datapath_ != nullptr,
             "adopted halves must be non-null");
    a3Assert(approx_->rows() == datapath_->rows() &&
                 approx_->dims() == datapath_->dims(),
             "selection/datapath shape mismatch");
}

ApproxQuantizedAttention::~ApproxQuantizedAttention() = default;

std::unique_ptr<AttentionBackend>
ApproxQuantizedAttention::clone() const
{
    auto approx = std::unique_ptr<ApproxAttention>(
        static_cast<ApproxAttention *>(
            approx_->clone().release()));
    auto datapath = std::unique_ptr<QuantizedAttention>(
        static_cast<QuantizedAttention *>(
            datapath_->clone().release()));
    return std::unique_ptr<AttentionBackend>(
        new ApproxQuantizedAttention(std::move(approx),
                                     std::move(datapath)));
}

std::size_t
ApproxQuantizedAttention::compact()
{
    return approx_->compact() + datapath_->compact();
}

void
ApproxQuantizedAttention::serializeState(WireWriter &out) const
{
    // Both halves in sequence: the float selection state, then the
    // quantized SRAM image.
    approx_->serializeState(out);
    datapath_->serializeState(out);
}

std::unique_ptr<ApproxQuantizedAttention>
ApproxQuantizedAttention::restore(const EngineConfig &config,
                                  WireReader &in)
{
    auto approx = ApproxAttention::restore(config.approx, in);
    if (approx == nullptr)
        return nullptr;
    auto datapath = QuantizedAttention::restore(config, in);
    if (datapath == nullptr ||
        datapath->rows() != approx->rows() ||
        datapath->dims() != approx->dims())
        return nullptr;
    return std::unique_ptr<ApproxQuantizedAttention>(
        new ApproxQuantizedAttention(std::move(approx),
                                     std::move(datapath)));
}

void
ApproxQuantizedAttention::append(const Matrix &keyRows,
                                 const Matrix &valueRows)
{
    approx_->append(keyRows, valueRows);
    datapath_->append(keyRows, valueRows);
}

std::size_t
ApproxQuantizedAttention::memoryBytes() const
{
    return approx_->memoryBytes() + datapath_->memoryBytes();
}

std::size_t
ApproxQuantizedAttention::rows() const
{
    return approx_->rows();
}

std::size_t
ApproxQuantizedAttention::dims() const
{
    return approx_->dims();
}

void
ApproxQuantizedAttention::runInto(const Vector &query,
                                  AttentionResult &out,
                                  ResultDetail detail) const
{
    const ApproxConfig &config = approx_->config();
    Scratch &scratch = Scratch::forThread();

    // Same selection hardware as the float flow.
    const std::size_t iterations =
        approx_->candidateRowsInto(query, scratch);
    const std::size_t count = scratch.rowIds.size();

    if (config.postScoring) {
        // Post-scoring reads the fixed-point scores of every
        // candidate, so the first pass runs at Full detail.
        datapath_->runRowsInto(query, scratch.rowIds, out);
        scratch.candScores.resize(count);
        for (std::size_t i = 0; i < count; ++i)
            scratch.candScores[i] = out.scores[scratch.rowIds[i]];
        postScoringSelectInto(scratch.rowIds, scratch.candScores,
                              config.scoreGap(), scratch.kept);
        datapath_->runRowsInto(query, scratch.kept, out, detail);
    } else {
        datapath_->runRowsInto(query, scratch.rowIds, out, detail);
    }
    // The final pipeline pass already recorded its row list as
    // out.kept; only the candidate list and iteration count remain.
    if (detail == ResultDetail::Full)
        out.candidates.assign(scratch.rowIds.begin(),
                              scratch.rowIds.end());
    out.iterations = iterations;
}

namespace {

/**
 * Quantized kinds only: reject bit widths before they reach the
 * datapath. An input word carries intBits + fracBits + 1 bits (sign
 * included) and is stored in the backend's int32 SRAM lanes, so
 * anything wider than 32 would silently truncate downstream.
 */
void
validateQuantizedBits(const EngineConfig &config)
{
    if (config.intBits <= 0 || config.fracBits <= 0) {
        fatal("EngineConfig: intBits and fracBits must be positive, "
              "got intBits=", config.intBits, " fracBits=",
              config.fracBits);
    }
    const int total = config.intBits + config.fracBits + 1;
    if (total > 32) {
        fatal("EngineConfig: input word needs intBits + fracBits + 1 = ",
              total, " bits, exceeding the 32-bit lane budget "
              "(intBits=", config.intBits, ", fracBits=",
              config.fracBits, ")");
    }
    // Mirror of the lane-budget check for the packed layouts: an
    // explicit narrow lane must still hold the input word losslessly.
    const int lane = packedKvLaneBits(config.packedKv);
    if (lane != 0 && total > lane) {
        fatal("EngineConfig: input word needs intBits + fracBits + 1 = ",
              total, " bits, exceeding the ", lane,
              "-bit packed K/V lane (packedKv=",
              packedKvFormatName(config.packedKv), ", intBits=",
              config.intBits, ", fracBits=", config.fracBits,
              "); packing is lossless — widen the lane or narrow the "
              "format");
    }
}

}  // namespace

std::unique_ptr<AttentionBackend>
makeBackend(const EngineConfig &config, Matrix key, Matrix value)
{
    if (config.kind == EngineKind::ExactQuantized ||
        config.kind == EngineKind::ApproxQuantized) {
        validateQuantizedBits(config);
    }
    switch (config.kind) {
      case EngineKind::ExactFloat:
        return std::make_unique<ReferenceAttention>(std::move(key),
                                                    std::move(value));
      case EngineKind::ApproxFloat:
        return std::make_unique<ApproxAttention>(
            std::move(key), std::move(value), config.approx);
      case EngineKind::ExactQuantized:
        return std::make_unique<QuantizedAttention>(
            std::move(key), std::move(value), config.intBits,
            config.fracBits, config.packedKv);
      case EngineKind::ApproxQuantized:
        return std::make_unique<ApproxQuantizedAttention>(
            std::move(key), std::move(value), config.approx,
            config.intBits, config.fracBits, config.packedKv);
    }
    panic("unknown engine kind");
}

std::unique_ptr<AttentionBackend>
deserializeBackend(const EngineConfig &config, WireReader &in)
{
    if (config.kind == EngineKind::ExactQuantized ||
        config.kind == EngineKind::ApproxQuantized) {
        validateQuantizedBits(config);
    }
    switch (config.kind) {
      case EngineKind::ExactFloat:
        return ReferenceAttention::restore(in);
      case EngineKind::ApproxFloat:
        return ApproxAttention::restore(config.approx, in);
      case EngineKind::ExactQuantized:
        return QuantizedAttention::restore(config, in);
      case EngineKind::ApproxQuantized:
        return ApproxQuantizedAttention::restore(config, in);
    }
    panic("unknown engine kind");
}

}  // namespace a3
