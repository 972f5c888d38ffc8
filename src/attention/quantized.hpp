/**
 * @file
 * Bit-accurate fixed-point model of the base A3 pipeline (Section III).
 *
 * This class reproduces, value for value, what the synthesized datapath
 * computes: inputs quantized to (i, f), element products at (2i, 2f), an
 * adder-tree dot product at (2i + log2 d, 2f), running-max subtraction,
 * the two-half exponent LUT, a truncating divider for the weights, and
 * the (i + log2 n, 3f) output accumulators. The cycle-level simulator
 * reuses this model for data while adding timing; the accuracy benches
 * use it for the Section VI-B quantization study.
 */

#ifndef A3_ATTENTION_QUANTIZED_HPP
#define A3_ATTENTION_QUANTIZED_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "attention/backend.hpp"
#include "attention/types.hpp"
#include "fixed/exp_lut.hpp"
#include "fixed/packed.hpp"
#include "fixed/pipeline_formats.hpp"
#include "kernels/scratch.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/** Fixed-point functional model of the base A3 attention pipeline. */
class QuantizedAttention final : public AttentionBackend
{
  public:
    /**
     * Size the pipeline for tasks up to maxRows x dims with inputs
     * quantized to `intBits`.`fracBits` (paper default: i = f = 4,
     * n = 320, d = 64). The datapath is unbound: every run() call
     * supplies its own key/value matrices.
     */
    QuantizedAttention(int intBits, int fracBits, std::size_t maxRows,
                       std::size_t dims);

    /**
     * Bind a key/value task into the datapath (the AttentionBackend
     * deployment): the pipeline is sized exactly for the task, the
     * key/value words are quantized once up front (the host copies
     * quantized matrices into the accelerator SRAM exactly once per
     * task), and the one-argument run() answers queries against it.
     *
     * `packedKv` chooses the SRAM lane layout (fixed/packed.hpp):
     * Auto packs to the narrowest lossless lane for the input format,
     * so narrow configurations get the 4-8x footprint shrink and the
     * packed SIMD kernels without any call-site change. Packing is
     * lossless — the packed lanes hold the exact quantized words the
     * int32-word layout holds — so results are bit-identical across
     * layouts. An explicit Int8/Int4 request too narrow for the input
     * word fatal()s.
     */
    QuantizedAttention(Matrix key, Matrix value, int intBits,
                       int fracBits,
                       PackedKvFormat packedKv = PackedKvFormat::Auto);

    using AttentionBackend::run;
    using AttentionBackend::runInto;

    /** Answer one query against the bound task (bound mode only). */
    void runInto(const Vector &query, AttentionResult &out,
                 ResultDetail detail) const override;

    /**
     * Incremental task extension (bound mode only): only the appended
     * rows are quantized — the cached words of the existing rows are
     * untouched — and the stage formats are re-derived for the grown
     * row count. Quantization is deterministic and only the capacity
     * annotations (expSum, output integer bits) depend on n, so
     * queries after append are bit-identical to a fresh bind of the
     * concatenated task.
     */
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;

    /**
     * Bytes of the quantized key/value SRAM lanes in the resolved
     * packed layout, plus the per-row scale metadata (0 when
     * unbound). This is the figure SessionCache budgets and
     * ShardedBackend aggregation see, so packing directly multiplies
     * session capacity.
     */
    std::size_t memoryBytes() const override;

    /**
     * Bound mode: run the pipeline over a row subset, reusing `out`'s
     * buffers and the calling thread's Scratch — the allocation-free
     * path the approximate flow feeds after selection. `rows` may
     * alias Scratch row buffers.
     */
    void runRowsInto(const Vector &query,
                     std::span<const std::uint32_t> rows,
                     AttentionResult &out,
                     ResultDetail detail = ResultDetail::Full) const;

    std::string name() const override { return "quantized"; }

    /** Bound task rows, or the sized capacity when unbound. */
    std::size_t rows() const override;

    /** Embedding dimension the pipeline is sized for. */
    std::size_t dims() const override { return dims_; }

    /** True when a key/value task is bound into the datapath. */
    bool bound() const { return bound_; }

    /** Resolved K/V lane layout (Word32 when unbound). */
    PackedKvFormat packedFormat() const { return packed_; }

    /**
     * Per-row dequantization scales of the packed key rows (empty in
     * Word32 layout). Quantization is symmetric, so the zero point is
     * implicitly 0 and a lane dequantizes as raw * scale. Today every
     * row shares the input format's resolution; the layout is per-row
     * so a future per-row-range scheme drops in without touching the
     * kernels.
     */
    const std::vector<float> &keyScales() const { return keyScale_; }

    /** Per-row dequantization scales of the packed value rows. */
    const std::vector<float> &valueScales() const { return valueScale_; }

    /**
     * Run the full pipeline over all rows of the task.
     * Matrix shapes must be within the sized capacity.
     */
    AttentionResult run(const Matrix &key, const Matrix &value,
                        const Vector &query) const;

    /**
     * Run the pipeline over a row subset (what approximate A3 feeds the
     * base pipeline after selection). `rows` must be non-empty.
     */
    AttentionResult run(const Matrix &key, const Matrix &value,
                        const Vector &query,
                        const std::vector<std::uint32_t> &rows) const;

    /** Derived per-stage formats (Section III-B). */
    const PipelineFormats &formats() const { return formats_; }

    /** The exponent lookup table pair. */
    const ExpLut &expLut() const { return lut_; }

    std::unique_ptr<AttentionBackend> clone() const override;
    bool serializable() const override { return true; }

    /**
     * The packed lanes and per-row scales verbatim (bound mode only)
     * — the on-disk image is the in-memory SRAM image, so restore()
     * skips re-quantization entirely. The formats and exponent LUT
     * are not serialized: both derive deterministically from
     * (intBits, fracBits, rows, dims), so restore() recomputes them
     * bit-identically for a fraction of the image size.
     */
    void serializeState(WireWriter &out) const override;
    std::size_t compact() override;

    /** Rebuild a bound datapath from a serializeState() payload;
     *  nullptr on a malformed or config-inconsistent payload. */
    static std::unique_ptr<QuantizedAttention>
    restore(const EngineConfig &config, WireReader &in);

  private:
    /**
     * The pipeline over `rows` of an n x dims_ task. In bound mode
     * key/value are null and the pre-quantized keyQ_/valueQ_ words
     * are read; in unbound mode the float matrices are quantized on
     * the fly (identical values either way — quantization is
     * deterministic, so bound and unbound runs are bit-identical).
     */
    void runCore(std::size_t n, const Matrix *key, const Matrix *value,
                 const Vector &query,
                 std::span<const std::uint32_t> rows,
                 AttentionResult &out, Scratch &scratch,
                 ResultDetail detail) const;

    /** Quantize and pack `count` task rows onto the packed arrays. */
    void packRows(const Matrix &keyRows, const Matrix &valueRows,
                  std::size_t count);

    PipelineFormats formats_;
    ExpLut lut_;
    std::size_t maxRows_;
    std::size_t dims_;
    /**
     * Row-major pre-quantized words of the bound task (n x d), in the
     * resolved packed_ layout. The float matrices are not retained:
     * the datapath models the accelerator SRAM, which holds only
     * quantized words. Exactly one of the three lane arrays per side
     * is populated; all layouts are lossless (an input word has
     * intBits + fracBits + 1 bits, which the resolved lane always
     * covers), so the layouts are bit-identical in results and differ
     * only in footprint and kernel path.
     */
    std::vector<std::int32_t> keyQ_;
    std::vector<std::int32_t> valueQ_;
    std::vector<std::int8_t> keyQ8_;
    std::vector<std::int8_t> valueQ8_;
    /** Nibble-packed int4 lanes, (dims + 1) / 2 bytes per row. */
    std::vector<std::uint8_t> keyQ4_;
    std::vector<std::uint8_t> valueQ4_;
    /** Per-row dequantization scales (packed layouts only). */
    std::vector<float> keyScale_;
    std::vector<float> valueScale_;
    PackedKvFormat packed_ = PackedKvFormat::Word32;
    std::size_t boundRows_ = 0;
    bool bound_ = false;
};

}  // namespace a3

#endif  // A3_ATTENTION_QUANTIZED_HPP
