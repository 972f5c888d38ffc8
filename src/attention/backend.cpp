#include "attention/backend.hpp"

#include <numeric>
#include <utility>

#include "attention/approx_attention.hpp"
#include "attention/post_scoring.hpp"
#include "attention/quantized.hpp"
#include "attention/reference.hpp"
#include "attention/serialize.hpp"
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
AttentionBackend::runUnitPartialInto(std::size_t unit,
                                     const Vector &query,
                                     PartialResult &out,
                                     ResultDetail detail) const
{
    a3Assert(unit == 0, "single-unit backend asked for unit ", unit);
    static_cast<SoftmaxTerms &>(out) = runInto(query, out, detail);
}

void
AttentionBackend::mergeUnitsInto(
    const std::vector<PartialResult> &partials,
    AttentionResult &out) const
{
    a3Assert(partials.size() == 1,
             "single-unit backend asked to merge ", partials.size(),
             " partials");
    out = partials.front();
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

SoftmaxTerms
ReferenceAttention::runInto(const Vector &query, AttentionResult &out,
                            ResultDetail detail) const
{
    Scratch &scratch = Scratch::forThread();
    scratch.rowIds.resize(key_.rows());
    std::iota(scratch.rowIds.begin(), scratch.rowIds.end(), 0u);
    return subsetAttentionInto(key_, value_, query, scratch.rowIds, out,
                               scratch, detail);
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

SoftmaxTerms
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
    const bool full = detail == ResultDetail::Full;

    SoftmaxTerms terms;
    if (config.postScoring) {
        // Post-scoring reads the fixed-point scores of every
        // candidate, so the first pass runs at Full detail.
        datapath_->runRowsInto(query, scratch.rowIds, out);
        scratch.candScores.resize(count);
        for (std::size_t i = 0; i < count; ++i)
            scratch.candScores[i] = out.scores[scratch.rowIds[i]];
        postScoringSelectInto(scratch.rowIds, scratch.candScores,
                              config.scoreGap(), scratch.kept);
        terms =
            datapath_->runRowsInto(query, scratch.kept, out, detail);
        // Keep the scores post-scoring inspected, as the float flow
        // does: only rows never scored hold 0.
        if (full)
            for (std::size_t i = 0; i < count; ++i)
                out.scores[scratch.rowIds[i]] = scratch.candScores[i];
    } else {
        terms =
            datapath_->runRowsInto(query, scratch.rowIds, out, detail);
    }
    // The pipeline pass already recorded its row list as out.kept;
    // only the candidate list and iteration count remain.
    if (full)
        out.candidates.assign(scratch.rowIds.begin(),
                              scratch.rowIds.end());
    out.iterations = iterations;
    return terms;
}

std::string
validateEngineConfig(const EngineConfig &config)
{
    const EngineKind kind = config.kind;
    if (kind == EngineKind::ApproxFloat ||
        kind == EngineKind::ApproxQuantized) {
        // Negated comparisons so a NaN knob is rejected too.
        const ApproxConfig &approx = config.approx;
        if (approx.candidateSelection && approx.mAbsolute == 0 &&
            !(approx.mFraction > 0.0))
            return detail::concat(
                "approx.mFraction must be positive when candidate "
                "selection uses it, got ", approx.mFraction);
        if (approx.postScoring && !(approx.thresholdPercent > 0.0))
            return detail::concat(
                "approx.thresholdPercent must be positive with "
                "post-scoring on, got ", approx.thresholdPercent);
    }
    if (kind != EngineKind::ExactQuantized &&
        kind != EngineKind::ApproxQuantized)
        return "";

    // An input word carries intBits + fracBits + 1 bits (sign
    // included) and is stored in the backend's int32 SRAM lanes, so
    // anything wider than 32 would silently truncate downstream.
    if (config.intBits <= 0 || config.fracBits <= 0)
        return detail::concat(
            "intBits and fracBits must be positive, got intBits=",
            config.intBits, " fracBits=", config.fracBits);
    // Widened: widths off the wire can be near INT_MAX.
    const long long total =
        static_cast<long long>(config.intBits) + config.fracBits + 1;
    if (total > 32)
        return detail::concat(
            "input word needs intBits + fracBits + 1 = ", total,
            " bits, exceeding the 32-bit lane budget (intBits=",
            config.intBits, ", fracBits=", config.fracBits, ")");
    // Mirror of the lane-budget check for the packed layouts: an
    // explicit narrow lane must still hold the input word losslessly.
    const int lane = packedKvLaneBits(config.packedKv);
    if (lane != 0 && total > lane)
        return detail::concat(
            "input word needs intBits + fracBits + 1 = ", total,
            " bits, exceeding the ", lane,
            "-bit packed K/V lane (packedKv=",
            packedKvFormatName(config.packedKv), ", intBits=",
            config.intBits, ", fracBits=", config.fracBits,
            "); packing is lossless — widen the lane or narrow the "
            "format");
    return "";
}

namespace {

void
requireValidConfig(const EngineConfig &config)
{
    const std::string error = validateEngineConfig(config);
    if (!error.empty())
        fatal("EngineConfig: ", error);
}

}  // namespace

std::unique_ptr<AttentionBackend>
makeBackend(const EngineConfig &config, Matrix key, Matrix value)
{
    requireValidConfig(config);
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
    requireValidConfig(config);
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
